"""Static analysis: the determinism & contract linter behind ``repro check``.

The repo's headline guarantee — byte-identical results at any ``--jobs``
level, across store temperatures and after kill-and-resume — rests on
conventions a runtime test can only sample: every draw traces to the root
seed, no wall clock reaches a record, unordered iteration never feeds
persisted bytes, every config field declares its fingerprint role, writes in
the persistence layers are atomic, persisted float text is exact, the stable
facade doesn't drift, and dispatch failures use the library's exception
hierarchy.  This package *proves* those contracts at parse time, on every
file, before a single simulation runs.

Layout:

* :mod:`~repro.analysis.findings` — findings and ``# repro: allow[...]``
  suppressions;
* :mod:`~repro.analysis.rules` — the source model, import resolution and the
  rule registry;
* :mod:`~repro.analysis.determinism` — DET-RNG, DET-CLOCK, DET-ORDER;
* :mod:`~repro.analysis.contracts` — FP-FIELD, IO-ATOMIC, FLOAT-FMT,
  API-SURFACE, EXC-BARE;
* :mod:`~repro.analysis.baseline` — the grandfathered-findings file;
* :mod:`~repro.analysis.runner` — discovery, suppression/baseline
  accounting, text/JSON reports and exit codes.

Entry points: ``repro check`` (CLI), :func:`repro.api.check`, or directly::

    from repro.analysis import run_check
    report = run_check(["src/repro"])
    print(report.render())
    raise SystemExit(report.exit_code)
"""

from .baseline import load_baseline, partition_findings, save_baseline
from .findings import Finding, Suppression, parse_suppressions
from .rules import RULE_REGISTRY, ModuleSource, Rule, get_rule, register
from .runner import CheckReport, default_baseline_path, lint_source, run_check

# Importing the rule modules is what populates RULE_REGISTRY.
from . import contracts, determinism  # noqa: F401  (registration side effect)
from .contracts import write_api_surface

__all__ = [
    "Finding",
    "Suppression",
    "parse_suppressions",
    "Rule",
    "ModuleSource",
    "RULE_REGISTRY",
    "register",
    "get_rule",
    "CheckReport",
    "run_check",
    "lint_source",
    "default_baseline_path",
    "load_baseline",
    "save_baseline",
    "partition_findings",
    "write_api_surface",
]
