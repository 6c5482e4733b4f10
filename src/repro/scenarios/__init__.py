"""The scenario subsystem: declarative workload/platform regimes.

The paper evaluates its heuristics on two fixed testbeds under homogeneous
Poisson arrivals.  This package turns that two-testbed reproduction into a
general scheduling-scenario lab:

* platform generators (:mod:`repro.scenarios.platforms`) build farms beyond
  the Table 2 quadruplets — homogeneous, power-law heterogeneous, and
  N-server replicas of the paper machines;
* :class:`Scenario` (:mod:`repro.scenarios.scenario`) composes a platform, a
  workload family, a (possibly non-homogeneous) arrival process and an
  optional fault/churn schedule into one named, declarative regime;
* :data:`SCENARIO_REGISTRY` names the stock regimes (``paper-low-rate``,
  ``burst-storm``, ``diurnal-week``, ``hetero-farm-16``, ``flaky-servers``,
  ...), runnable via ``repro scenario run <name>``;
* :func:`run_sweep` (:mod:`repro.scenarios.sweep`) runs a heuristic ×
  scenario grid through the campaign engine and ranks the heuristics per
  regime — byte-identical at any ``--jobs`` level, with every run's record
  collected into one persistable :class:`~repro.results.ResultSet`.
"""

from .platforms import homogeneous_farm, power_law_farm, replicated_paper_farm
from .scenario import (
    SCENARIO_REGISTRY,
    Scenario,
    build_scenario_metatasks,
    get_scenario,
    run_scenario,
    scenario_names,
    scenario_seed_offset,
)
from .sweep import ScenarioSweepResult, run_sweep

__all__ = [
    "Scenario",
    "SCENARIO_REGISTRY",
    "scenario_names",
    "get_scenario",
    "scenario_seed_offset",
    "build_scenario_metatasks",
    "run_scenario",
    "ScenarioSweepResult",
    "run_sweep",
    "homogeneous_farm",
    "power_law_farm",
    "replicated_paper_farm",
]
