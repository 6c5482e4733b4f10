"""Exception hierarchy for the :mod:`repro` library.

Every error raised on purpose by the library derives from :class:`ReproError`
so that callers can catch library failures without swallowing genuine bugs
(``TypeError``, ``KeyError`` ...).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SimulationError",
    "EmptySchedule",
    "PlatformError",
    "TaskRejected",
    "SchedulingError",
    "NoCandidateServer",
    "WorkloadError",
    "UnknownProblem",
    "ExperimentError",
    "ResultsError",
    "StoreError",
    "StatsError",
    "AnalysisError",
]


class ReproError(Exception):
    """Base class of every exception raised by the :mod:`repro` library."""


# --------------------------------------------------------------------------- #
# Simulation engine
# --------------------------------------------------------------------------- #
class SimulationError(ReproError):
    """Error raised by the discrete-event simulation engine."""


class EmptySchedule(SimulationError):
    """Raised by :meth:`repro.simulation.Environment.step` when no event is left."""


# --------------------------------------------------------------------------- #
# Platform / middleware
# --------------------------------------------------------------------------- #
class PlatformError(ReproError):
    """Error raised by the platform (servers, links, agent, clients) model."""


class TaskRejected(PlatformError):
    """A server refused to accept a new task (typically for lack of memory)."""

    def __init__(self, server_name: str, task_id: str, reason: str):
        super().__init__(f"server {server_name!r} rejected task {task_id!r}: {reason}")
        self.server_name = server_name
        self.task_id = task_id
        self.reason = reason


# --------------------------------------------------------------------------- #
# Scheduling
# --------------------------------------------------------------------------- #
class SchedulingError(ReproError):
    """Error raised by the agent or by a scheduling heuristic."""


class NoCandidateServer(SchedulingError):
    """No registered server is able to solve the requested problem."""

    def __init__(self, problem_name: str):
        super().__init__(f"no registered server can solve problem {problem_name!r}")
        self.problem_name = problem_name


# --------------------------------------------------------------------------- #
# Workload
# --------------------------------------------------------------------------- #
class WorkloadError(ReproError):
    """Error raised by the workload generators."""


class UnknownProblem(WorkloadError):
    """The requested problem name is not part of the problem catalogue."""

    def __init__(self, problem_name: str):
        super().__init__(f"unknown problem {problem_name!r}")
        self.problem_name = problem_name


# --------------------------------------------------------------------------- #
# Experiments
# --------------------------------------------------------------------------- #
class ExperimentError(ReproError):
    """Error raised by the experiment harness."""


# --------------------------------------------------------------------------- #
# Results
# --------------------------------------------------------------------------- #
class ResultsError(ReproError):
    """Error raised by the results subsystem (records, result sets, files)."""


# --------------------------------------------------------------------------- #
# Campaign store
# --------------------------------------------------------------------------- #
class StoreError(ReproError):
    """Error raised by the campaign store (cell cache, journal, resume)."""


# --------------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------------- #
class StatsError(ReproError):
    """Error raised by the statistics subsystem (:mod:`repro.stats`)."""


# --------------------------------------------------------------------------- #
# Static analysis
# --------------------------------------------------------------------------- #
class AnalysisError(ReproError):
    """Error raised by the static-analysis subsystem (:mod:`repro.analysis`)."""
