"""Hot-path counter registry and per-run rollups.

The fluid core and the HTM keep plain integer attributes on their hot paths
(one ``+= 1`` next to a heap push is unmeasurable; a dict lookup per event is
not) and expose them through ``counters()`` accessors.  This module collects
those integers into flat, prefixed dictionaries:

* :func:`middleware_counters` — one run's counters, harvested from a
  :class:`~repro.platform.middleware.GridMiddleware` after ``run()``:
  ground-truth fluid-core work (``fluid.*``), the HTM's trace simulations and
  prediction-cache behaviour (``htm.*``), agent activity (``agent.*``) and
  the monitor report bus (``monitor.*``);
* :func:`merge_counters` — key-wise sum across cells, used to roll a whole
  campaign up into one ``perf-report.json`` block.

Counters are derived from simulation state only (they are deterministic per
cell), but they stay **out of** :class:`~repro.results.RunRecord` metrics
and fingerprints: they describe the *implementation's* work, not the
modelled system, and adding a counter must never move a golden table.

Everything here is duck-typed on purpose: ``repro.obs`` sits below the
platform layer in the import graph (the middleware imports *us*), so this
module must not import from :mod:`repro.platform` or :mod:`repro.core`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping

__all__ = ["merge_counters", "middleware_counters"]


def merge_counters(counter_maps: Iterable[Mapping[str, int]]) -> Dict[str, int]:
    """Key-wise sum of counter dictionaries, keys sorted for stable output."""
    totals: Dict[str, int] = {}
    for counters in counter_maps:
        for key, value in counters.items():
            totals[key] = totals.get(key, 0) + int(value)
    return {key: totals[key] for key in sorted(totals)}


def _prefixed(prefix: str, counters: Mapping[str, int]) -> Dict[str, int]:
    return {f"{prefix}{key}": int(value) for key, value in counters.items()}


def middleware_counters(middleware) -> Dict[str, int]:
    """Roll one finished middleware run up into a flat counter dict.

    Keys are sorted; values are plain ints, so the dict pickles cheaply from
    worker processes and serialises deterministically.
    """
    out: Dict[str, int] = {}

    # Ground-truth fluid work, summed over the servers' networks.
    out.update(
        _prefixed(
            "fluid.",
            merge_counters(
                server.network.counters() for server in middleware.servers.values()
            ),
        )
    )

    agent = middleware.agent
    stats = agent.stats
    out["agent.requests"] = stats.requests
    out["agent.mappings"] = stats.mappings
    out["agent.completion_messages"] = stats.completion_messages
    out["agent.failure_messages"] = stats.failure_messages
    out["agent.reports_received"] = stats.reports_received
    out["agent.reports_down_received"] = stats.reports_down_received
    out["agent.reports_dropped"] = stats.reports_dropped
    out["agent.dispatches_with_report"] = stats.dispatches_with_report
    out["agent.dispatches_without_report"] = stats.dispatches_without_report

    out["monitor.reports_sent"] = sum(
        monitor.reports_sent for monitor in middleware.monitors.values()
    )

    htm = agent.htm
    if htm is not None:
        out["htm.predicts"] = htm.n_predicts
        out["htm.commits"] = htm.n_commits
        out["htm.whatif.closed_form"] = htm.n_closed_form
        out["htm.whatif.runs"] = htm.n_whatif_runs
        hits = misses = whatif_steps = 0
        trace_networks = []
        for server in sorted(htm.servers()):
            trace = htm.trace(server)
            hits += trace.cache_hits
            misses += trace.cache_misses
            whatif_steps += trace.whatif_steps
            trace_networks.append(trace.network)
        out["htm.baseline_cache_hits"] = hits
        out["htm.baseline_cache_misses"] = misses
        out["htm.whatif.steps"] = whatif_steps
        out.update(
            _prefixed(
                "htm.fluid.",
                merge_counters(n.counters() for n in trace_networks),
            )
        )

    return {key: out[key] for key in sorted(out)}
