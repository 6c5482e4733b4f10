#!/usr/bin/env python
"""The Historical Trace Manager at work (Fig. 1 of the paper).

Reproduces the "usefulness of the HTM" scenario of Section 2.3: two identical
servers each run one task; when a third task arrives the HTM knows the
*remaining* durations and picks the server that frees up first.  The script
prints the per-candidate Gantt charts of the decision, shows how an
agent-side trace evolves as more tasks are committed, and compares the
candidate servers of one decision under each heuristic's objective.

Run with::

    python examples/htm_gantt_demo.py
"""

from __future__ import annotations

from repro.core import HistoricalTraceManager
from repro.experiments import run_fig1
from repro.workload.problems import matmul_problem
from repro.workload.tasks import Task


def fig1_scenario() -> None:
    print("=" * 78)
    print("Fig. 1 — two identical servers, a third task arrives at t = 80 s")
    print("=" * 78)
    result = run_fig1(duration_t1=100.0, duration_t2=200.0, duration_t3=100.0, arrival_t3=80.0)
    print(result.render())
    print()


def growing_trace() -> None:
    print("=" * 78)
    print("An agent-side trace growing on the paper's testbed (server artimon)")
    print("=" * 78)
    htm = HistoricalTraceManager()
    htm.register_server("artimon", lambda problem: problem.costs_on("artimon"))

    arrivals = [(0.0, 1800), (10.0, 1200), (25.0, 1500), (40.0, 1200)]
    for index, (arrival, size) in enumerate(arrivals):
        task = Task(f"task-{index}", matmul_problem(size), arrival=arrival)
        prediction = htm.predict("artimon", task, now=arrival)
        print(
            f"t={arrival:6.1f}s  mapping matmul-{size}: predicted completion "
            f"{prediction.new_task_completion:7.1f}s, "
            f"perturbation inflicted {prediction.sum_perturbation:6.1f}s "
            f"on {prediction.n_perturbed} running task(s)"
        )
        htm.commit("artimon", task, now=arrival)

    print("\npredicted Gantt chart of the artimon trace:")
    print(htm.gantt("artimon").render())
    print()


def candidate_comparison() -> None:
    print("=" * 78)
    print("Comparing candidate servers for one decision")
    print("=" * 78)
    htm = HistoricalTraceManager()
    for server in ("chamagne", "cabestan", "artimon", "pulney"):
        htm.register_server(server, lambda problem, s=server: problem.costs_on(s))
    # Pre-load the two fastest servers.
    htm.commit("artimon", Task("bg-1", matmul_problem(1800), arrival=0.0), now=0.0)
    htm.commit("pulney", Task("bg-2", matmul_problem(1500), arrival=0.0), now=0.0)
    htm.commit("pulney", Task("bg-3", matmul_problem(1200), arrival=5.0), now=5.0)

    new_task = Task("new", matmul_problem(1800), arrival=20.0)
    by_server = htm.predict_all(htm.servers(), new_task, now=20.0)
    predictions = [by_server[name] for name in sorted(by_server)]
    print(
        f"{'server':>12} {'completion':>12} {'flow':>10} {'sum pert.':>10} "
        f"{'#pert':>6} {'ΔsumFlow':>10}"
    )
    for p in predictions:
        print(
            f"{p.server:>12} {p.new_task_completion:>12.2f} {p.predicted_flow:>10.2f} "
            f"{p.sum_perturbation:>10.2f} {p.n_perturbed:>6d} {p.sum_flow_increase:>10.2f}"
        )
    print()
    for heuristic, objective in (
        ("HMCT", "new_task_completion"),
        ("MP", "sum_perturbation"),
        ("MSF", "sum_flow_increase"),
    ):
        best = min(
            predictions,
            key=lambda p: (getattr(p, objective), p.new_task_completion, p.server),
        )
        print(f"{heuristic:<4} would pick : {best.server}")


def main() -> None:
    fig1_scenario()
    growing_trace()
    candidate_comparison()


if __name__ == "__main__":
    main()
