"""repro — reproduction of "New Dynamic Heuristics in the Client-Agent-Server Model".

The library is organised in five layers (see DESIGN.md):

* :mod:`repro.simulation` — a callback calendar (the simulation clock plus
  callbacks scheduled at future dates) and the fluid processor-sharing model
  of Section 2.3;
* :mod:`repro.platform` — the simulated NetSolve middleware (servers, agent,
  monitors, clients, faults): the ground truth;
* :mod:`repro.core` — the paper's contribution: the Historical Trace Manager,
  the perturbation and the heuristics (MCT, HMCT, MP, MSF, extensions);
* :mod:`repro.workload` — Tables 2–4 testbeds, problems and metatasks;
* :mod:`repro.metrics` / :mod:`repro.experiments` — Section 3 metrics and the
  harness reproducing every table of the evaluation;
* :mod:`repro.results` / :mod:`repro.api` — the unified results layer:
  provenance-stamped run records, the columnar queryable
  :class:`~repro.results.ResultSet` with JSONL/CSV persistence, and the
  stable ``api.run`` / ``api.sweep`` / ``api.load_results`` /
  ``api.compare`` facade;
* :mod:`repro.stats` — dependency-free statistics: Student-t confidence
  intervals, MSER-5 warm-up detection, the sequential stopping rule behind
  ``--ci-target`` / ``reps="auto"``, and the closed-form M/M/c validation
  suite behind ``repro validate`` / ``api.validate``.

Quickstart::

    from repro import GridMiddleware
    from repro.workload.testbed import first_set_platform, matmul_metatask
    from repro.metrics import summarize
    import numpy as np

    metatask = matmul_metatask(count=50, mean_interarrival=20.0,
                               rng=np.random.default_rng(0))
    result = GridMiddleware(first_set_platform(), heuristic="msf").run(metatask)
    print(summarize(result.tasks, "msf").as_dict())
"""

from .core import (
    HEURISTIC_REGISTRY,
    PAPER_HEURISTICS,
    HistoricalTraceManager,
    HmctHeuristic,
    HtmPrediction,
    MctHeuristic,
    MpHeuristic,
    MsfHeuristic,
    available_heuristics,
    create_heuristic,
)
from .errors import ReproError
from .metrics import summarize, tasks_finishing_sooner
from .results import ResultSet, RunRecord
from .store import CampaignStore, open_store
from .platform import (
    Agent,
    ComputeServer,
    FaultTolerancePolicy,
    GridMiddleware,
    MemoryModel,
    MiddlewareConfig,
    PlatformSpec,
    RunResult,
    SpeedNoiseModel,
)
from .simulation import Environment, FluidNetwork, ProcessorSharingQueue, RandomStreams
from .workload import (
    Metatask,
    PAPER_CATALOGUE,
    PoissonArrivals,
    ProblemCatalogue,
    Task,
    generate_metatask,
)
from . import api

__version__ = "1.1.0"

__all__ = [
    "__version__",
    "ReproError",
    # core
    "HistoricalTraceManager",
    "HtmPrediction",
    "MctHeuristic",
    "HmctHeuristic",
    "MpHeuristic",
    "MsfHeuristic",
    "HEURISTIC_REGISTRY",
    "PAPER_HEURISTICS",
    "create_heuristic",
    "available_heuristics",
    # platform
    "Agent",
    "ComputeServer",
    "GridMiddleware",
    "MiddlewareConfig",
    "RunResult",
    "MemoryModel",
    "SpeedNoiseModel",
    "FaultTolerancePolicy",
    "PlatformSpec",
    # simulation
    "Environment",
    "FluidNetwork",
    "ProcessorSharingQueue",
    "RandomStreams",
    # workload
    "Task",
    "Metatask",
    "generate_metatask",
    "PoissonArrivals",
    "ProblemCatalogue",
    "PAPER_CATALOGUE",
    # metrics
    "summarize",
    "tasks_finishing_sooner",
    # results API
    "api",
    "ResultSet",
    "RunRecord",
    # campaign store
    "CampaignStore",
    "open_store",
]
