"""The Historical Trace Manager (HTM).

The HTM is the paper's central mechanism (Section 2.3): it "stores and keeps
track of information about each task.  It simulates the execution of tasks on
resources and is able to predict the completion time of each task assigned to
a server."  Concretely, for every server it maintains a fluid simulation of
the tasks mapped there — each task being the sequence *input transfer →
computation → output transfer* on processor-shared resources — and answers
two questions:

* *prediction* (:meth:`HistoricalTraceManager.predict`): if the new task were
  mapped on server *s*, when would it finish, and by how much would every
  already-mapped task be delayed (the **perturbation**)?
* *commitment* (:meth:`HistoricalTraceManager.commit`): the agent actually
  mapped the task; record it so future predictions account for it.

The HTM is deliberately independent from the ground-truth platform: it only
sees what the agent sees (static problem descriptions and the mapping
decisions), which is why its predictions can drift when the real servers are
noisy — exactly the model error measured in Table 1 of the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Set

from ..errors import SchedulingError
from ..simulation.fluid import FluidNetwork, FluidStage
from ..workload.problems import PhaseCosts, ProblemSpec
from ..workload.tasks import Task
from .gantt import GanttChart, chart_from_states
from .records import HtmPrediction, TracedTask

__all__ = ["ServerTrace", "HistoricalTraceManager"]

#: Resource names used inside every server trace.
_TRACE_RESOURCES = ("net_in", "cpu", "net_out")

#: Type of the callables that give the unloaded costs of a problem on a server.
CostsProvider = Callable[[ProblemSpec], PhaseCosts]


@dataclass
class ServerTrace:
    """The HTM's view of one server: mapped tasks and their fluid simulation."""

    server: str
    costs_provider: CostsProvider
    cpu_count: int = 1
    network: FluidNetwork = None  # type: ignore[assignment]
    next_local_number: int = 1
    #: Cached free-run completion dates, valid while the network's structural
    #: version is :attr:`_cache_version` (see :meth:`free_run_completions`).
    _cached_completions: Optional[Dict[object, float]] = field(
        default=None, repr=False, compare=False
    )
    _cache_version: int = field(default=-1, repr=False, compare=False)
    #: Baseline-cache behaviour counters (see :mod:`repro.obs.counters`).
    cache_hits: int = field(default=0, repr=False, compare=False)
    cache_misses: int = field(default=0, repr=False, compare=False)
    #: ``_step_to`` passes of the discarded what-if copies (:meth:`what_if`).
    whatif_steps: int = field(default=0, repr=False, compare=False)
    #: Tasks reported complete while the HTM does not resync, forgotten by
    #: :meth:`advance_to` once the trace's own model has finished them.
    notified: Set[str] = field(default_factory=set, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.network is None:
            self.network = FluidNetwork(
                {"net_in": 1.0, "cpu": float(self.cpu_count), "net_out": 1.0},
                per_job_caps={"cpu": 1.0},
            )

    def advance_to(self, now: float) -> None:
        """Advance the trace to ``now`` and forget the notified tasks it finished."""
        network = self.network
        network.advance_to(now)
        if self.notified:
            done = [
                key for key in self.notified if key not in network or network.task(key).finished
            ]
            for key in done:
                self.notified.discard(key)
                network.forget(key)

    def what_if(self, network: Optional[FluidNetwork] = None) -> Dict[object, float]:
        """Run ``network`` (default: a copy of the trace) to completion.

        ``network`` must be a copy of the trace, possibly with tasks added;
        its stepping passes since the copy are added to :attr:`whatif_steps`
        (0 for a network without a step counter, such as the legacy core's
        that ``benchmarks/bench_micro.py`` swaps in).
        """
        if network is None:
            network = self.network.copy()
        completions = network.run_to_completion()
        self.whatif_steps += getattr(network, "n_steps", 0) - getattr(self.network, "n_steps", 0)
        return completions

    def unfinished_task_ids(self) -> List[str]:
        """Ids of the tasks the HTM believes are still running on the server."""
        return [str(key) for key in self.network.unfinished_keys()]

    def free_run_completions(self) -> Mapping[object, float]:
        """Completion date of every task if nothing more is mapped (cached).

        The result is memoised against :attr:`FluidNetwork.version`: mapping,
        removing or forgetting a task (or a capacity change) invalidates it,
        whereas merely advancing the clock does not — a free run yields the
        same absolute completion dates from any clock position.  This is the
        fast path behind the HTM's incremental prediction mode: one baseline
        simulation is shared by every candidate-server ``predict`` of a
        scheduling decision instead of one fresh ``copy()`` +
        ``run_to_completion()`` per candidate.
        """
        if self._cached_completions is None or self._cache_version != self.network.version:
            self._cached_completions = dict(self.what_if())
            self._cache_version = self.network.version
            self.cache_misses += 1
        else:
            self.cache_hits += 1
        # Read-only view: a caller mutating the baseline would otherwise
        # corrupt every later incremental prediction until the next
        # structural mutation.
        return MappingProxyType(self._cached_completions)

    def predicted_completions(self, incremental: bool = True) -> Dict[str, float]:
        """Predicted completion date of every unfinished task (what-if free run).

        With ``incremental=False`` the free run is recomputed from a fresh
        copy instead of the memoised baseline (the legacy A/B control arm).
        """
        unfinished = set(self.network.unfinished_keys())
        if incremental:
            completions = self.free_run_completions()
        else:
            completions = self.what_if()
        return {
            str(key): value for key, value in completions.items() if key in unfinished
        }


class HistoricalTraceManager:
    """Simulates, per server, the execution of every task the agent mapped.

    Parameters
    ----------
    resync_on_completion:
        When ``True`` (default, and the behaviour of the paper's
        implementation which receives NetSolve completion messages), a task
        reported as completed by the platform is removed from the trace at the
        *actual* completion date, re-anchoring the simulation.  When ``False``
        the HTM trusts its own simulation only — the ablation studied as the
        paper's second "future work" item.  A task reported complete then
        stays in the trace until the model finishes it too, and is forgotten
        at the next advance after that.
    model_communication:
        When ``False`` the input/output transfer phases are ignored by the
        trace (compute-only model) — used by an ablation benchmark.
    incremental_predictions:
        When ``True`` (default), :meth:`predict` reuses a cached free-run
        baseline (the "without the new task" simulation) of each server trace
        instead of deep-copying and re-simulating the whole network per
        candidate server.  The cache is invalidated automatically whenever the
        trace mutates (``commit``, ``notify_completion``, ``notify_failure``,
        ``clear_server``); advancing the clock keeps it valid.  Predictions
        are numerically identical to the legacy copy-and-rerun path (up to
        floating-point integration order, well below 1e-6 s); set to ``False``
        to force the legacy path, e.g. for A/B benchmarking.

    Both prediction arms run on the virtual-time fluid core
    (:mod:`repro.simulation.fluid`): a what-if ``copy()`` shares the immutable
    per-job records and a free run costs O(events · log J) instead of
    rescanning every job at every event, which is what keeps ``predict``
    off the top of the campaign profile even for traces carrying thousands
    of tasks (see ``bench_htm_predict_large_n_*`` in
    ``benchmarks/bench_micro.py``).

    A prediction on a trace with no unfinished task skips the what-if runs
    and the baseline cache: the new task would run alone, so its completion
    is the closed form :meth:`~repro.simulation.fluid.FluidNetwork.lone_completion`,
    bit-identical to the simulated answer, and the perturbation maps are
    empty.  ``n_closed_form`` and ``n_whatif_runs`` count the two kinds of
    prediction; they sum to ``n_predicts``.
    """

    def __init__(
        self,
        resync_on_completion: bool = True,
        model_communication: bool = True,
        incremental_predictions: bool = True,
    ):
        self.resync_on_completion = resync_on_completion
        self.model_communication = model_communication
        self.incremental_predictions = incremental_predictions
        self._traces: Dict[str, ServerTrace] = {}
        self._placements: Dict[str, str] = {}  # task_id -> server name
        # Observability (see repro.obs): plain-int operation counters, and an
        # optional trace bus the middleware wires in.  ``tracer is None`` is
        # the zero-overhead-when-off guard on the hooks below.
        self.n_predicts = 0
        self.n_commits = 0
        # Split of ``n_predicts``: lone tasks answered in closed form, and
        # what-if simulations of a copied trace.
        self.n_closed_form = 0
        self.n_whatif_runs = 0
        self.tracer = None

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def register_server(
        self, server: str, costs_provider: CostsProvider, cpu_count: int = 1
    ) -> None:
        """Declare a server and the way to obtain unloaded costs on it.

        ``cpu_count`` mirrors the server's processor count so the trace shares
        the CPU the same way the real machine does.
        """
        if server in self._traces:
            raise SchedulingError(f"server {server!r} is already registered with the HTM")
        self._traces[server] = ServerTrace(
            server=server, costs_provider=costs_provider, cpu_count=cpu_count
        )

    def unregister_server(self, server: str) -> None:
        """Forget a server entirely (e.g. it left the middleware)."""
        trace = self._traces.pop(server, None)
        if trace is not None:
            for task_id in list(self._placements):
                if self._placements[task_id] == server:
                    del self._placements[task_id]

    def servers(self) -> List[str]:
        """Names of the registered servers."""
        return list(self._traces)

    def has_server(self, server: str) -> bool:
        """Whether ``server`` is known to the HTM."""
        return server in self._traces

    def trace(self, server: str) -> ServerTrace:
        """The trace of ``server`` (raises :class:`SchedulingError` if unknown)."""
        try:
            return self._traces[server]
        except KeyError:
            raise SchedulingError(f"server {server!r} is not registered with the HTM") from None

    def unfinished_total(self) -> int:
        """Tasks still unfinished across every server trace.

        The HTM's view of the grid's backlog — the metrics sampler reads it
        at every tick, so iteration is over the sorted server names for a
        deterministic (and insertion-order-independent) account.
        """
        return sum(
            len(self._traces[server].unfinished_task_ids())
            for server in sorted(self._traces)
        )

    # ------------------------------------------------------------------ #
    # the two HTM operations: predict and commit
    # ------------------------------------------------------------------ #
    def predict(self, server: str, task: Task, now: float) -> HtmPrediction:
        """Simulate the mapping of ``task`` on ``server`` at date ``now``.

        Returns the prediction used by the heuristics of Section 4: the
        completion date of the new task and the perturbation it inflicts on
        every already-mapped, unfinished task of that server.  A server with
        no unfinished task has nothing to perturb, so the new task's
        completion comes in closed form
        (:meth:`~repro.simulation.fluid.FluidNetwork.lone_completion`)
        instead of from a what-if simulation.
        """
        trace = self.trace(server)
        trace.advance_to(now)
        unfinished = set(trace.network.unfinished_keys())
        # A key still in the network (a finished record) takes the simulated
        # path, whose ``add_task`` rejects the duplicate.
        if not unfinished and task.task_id not in trace.network:
            prediction = HtmPrediction(
                server=server,
                task_id=task.task_id,
                now=now,
                new_task_completion=trace.network.lone_completion(
                    self._stages_for(trace, task)
                ),
            )
            self.n_closed_form += 1
        else:
            prediction = self._simulate_mapping(trace, task, now, unfinished)
            self.n_whatif_runs += 1
        self.n_predicts += 1
        if self.tracer is not None:
            self.tracer.emit(
                now,
                "htm.predict",
                server=server,
                task=task.task_id,
                completion=prediction.new_task_completion,
                tracked=len(unfinished),
            )
        return prediction

    def _simulate_mapping(
        self, trace: ServerTrace, task: Task, now: float, unfinished: set
    ) -> HtmPrediction:
        """The what-if runs of :meth:`predict`, without and with the new task."""
        if self.incremental_predictions:
            baseline = trace.free_run_completions()
        else:
            baseline = trace.what_if()
        completions_without = {
            str(k): v for k, v in baseline.items() if k in unfinished
        }

        with_new = trace.network.copy()
        with_new.add_task(task.task_id, arrival=now, stages=self._stages_for(trace, task), now=now)
        completions_with_all = trace.what_if(with_new)
        completions_with = {
            str(k): v for k, v in completions_with_all.items() if k in unfinished
        }
        perturbations = {
            task_id: completions_with[task_id] - completions_without[task_id]
            for task_id in completions_without
            if task_id in completions_with
        }
        return HtmPrediction(
            server=trace.server,
            task_id=task.task_id,
            now=now,
            new_task_completion=completions_with_all[task.task_id],
            completions_without=completions_without,
            completions_with=completions_with,
            perturbations=perturbations,
        )

    def predict_all(self, servers: Iterable[str], task: Task, now: float) -> Dict[str, HtmPrediction]:
        """Predictions for every candidate server (convenience for heuristics)."""
        return {server: self.predict(server, task, now) for server in servers}

    def commit(self, server: str, task: Task, now: float) -> TracedTask:
        """Record that the agent mapped ``task`` on ``server`` at date ``now``."""
        trace = self.trace(server)
        if task.task_id in self._placements:
            raise SchedulingError(f"task {task.task_id!r} is already tracked by the HTM")
        costs = trace.costs_provider(task.problem)
        record = TracedTask(
            task_id=task.task_id,
            server=server,
            mapped_at=now,
            input_s=costs.input_s if self.model_communication else 0.0,
            compute_s=costs.compute_s,
            output_s=costs.output_s if self.model_communication else 0.0,
            local_number=trace.next_local_number,
        )
        trace.next_local_number += 1
        trace.network.add_task(task.task_id, arrival=now, stages=self._stages_for(trace, task), now=now)
        self._placements[task.task_id] = server
        self.n_commits += 1
        return record

    # ------------------------------------------------------------------ #
    # synchronisation with the real platform
    # ------------------------------------------------------------------ #
    def notify_completion(self, task_id: str, at: float) -> None:
        """The platform reported that ``task_id`` completed at date ``at``."""
        server = self._placements.pop(task_id, None)
        if server is None:
            return
        trace = self._traces.get(server)
        if trace is None:
            return
        if not self.resync_on_completion:
            # Advancing here would add a progress step to the model; the
            # next advance forgets the task once the model has finished it.
            trace.notified.add(task_id)
            return
        trace.advance_to(at)
        if task_id in trace.network:
            state = trace.network.task(task_id)
            if state.finished:
                trace.network.forget(task_id)
            else:
                # The real task finished earlier than simulated: re-anchor.
                trace.network.remove_task(task_id, at)

    def notify_failure(self, task_id: str, at: float) -> None:
        """The platform reported that ``task_id`` failed (collapse, rejection...)."""
        server = self._placements.pop(task_id, None)
        if server is None:
            return
        trace = self._traces.get(server)
        if trace is None:
            return
        trace.advance_to(at)
        if task_id in trace.network:
            state = trace.network.task(task_id)
            if state.finished:
                trace.network.forget(task_id)
            else:
                trace.network.remove_task(task_id, at)

    def clear_server(self, server: str, at: float) -> None:
        """Drop every unfinished task of a server (it collapsed)."""
        trace = self._traces.get(server)
        if trace is None:
            return
        trace.advance_to(at)
        for task_id in list(trace.network.unfinished_keys()):
            trace.network.remove_task(task_id, at)
            self._placements.pop(str(task_id), None)

    def advance_to(self, now: float) -> None:
        """Advance every server trace to date ``now``."""
        for trace in self._traces.values():
            trace.advance_to(now)

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    def placement_of(self, task_id: str) -> Optional[str]:
        """Server the HTM believes ``task_id`` is (still) mapped on."""
        return self._placements.get(task_id)

    def tracked_task_count(self, server: Optional[str] = None) -> int:
        """Number of unfinished tasks tracked, overall or for one server."""
        if server is not None:
            return len(self.trace(server).unfinished_task_ids())
        return sum(len(t.unfinished_task_ids()) for t in self._traces.values())

    def predicted_completions(self, server: str) -> Dict[str, float]:
        """Predicted completion dates of the unfinished tasks of ``server``."""
        return self.trace(server).predicted_completions(incremental=self.incremental_predictions)

    def gantt(self, server: str, until_completion: bool = True) -> GanttChart:
        """Gantt chart of a server trace.

        With ``until_completion`` (default) the chart shows the *predicted*
        full execution (a copy of the trace is run to completion first);
        otherwise it shows only what has been simulated so far.  Tasks the
        trace has forgotten (completed, and reported so) are not shown.
        """
        trace = self.trace(server)
        network = trace.network.copy()
        if until_completion:
            network.run_to_completion()
        return chart_from_states(server, network.tasks())

    # ------------------------------------------------------------------ #
    def _stages_for(self, trace: ServerTrace, task: Task) -> List[FluidStage]:
        costs = trace.costs_provider(task.problem)
        if self.model_communication:
            return [
                FluidStage("net_in", costs.input_s),
                FluidStage("cpu", costs.compute_s),
                FluidStage("net_out", costs.output_s),
            ]
        return [FluidStage("cpu", costs.compute_s)]

    def __repr__(self) -> str:
        return (
            f"<HistoricalTraceManager servers={len(self._traces)} "
            f"tracked_tasks={len(self._placements)}>"
        )
