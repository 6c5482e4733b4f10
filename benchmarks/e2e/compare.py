"""Compare two sets of end-to-end benchmark reports.

Usage, from the root of the repository::

    python3 benchmarks/e2e/compare.py A/*.json -- B/*.json
    python3 benchmarks/e2e/compare.py A/*.json

Each file is a ``run.py --json`` report; A is the parent (or the first set),
B the change.  For every workload × metric the tool prints each side's
median and quartiles, the share of pairs B wins (run *i* of A against run
*i* of B, in the order given; ties count for neither side) and a verdict:

``better``
    B wins at least 9 of 10 pairs and the medians differ by more than A's
    interquartile range.
``unresolved``
    Not better, and the run-to-run spread (interquartile range over median,
    either side) is wider than the metric's bound.
``worse``
    B's median is worse than A's by more than the bound.
``worse-within-bound``
    Not worse, but B loses at least 9 of 10 pairs and the medians differ by
    more than A's interquartile range: a real loss the bound still allows.
``same``
    None of the above.

Given one set only, it prints that set's median, quartiles and run count
per workload × metric as JSON (how ``baseline-2003.json`` was made).

Bounds and directions come from BENCHMARK.json; ``failed_frac`` has bound 0.
Per-layer metrics have no bound, so they are only ever better, worse (by
the same rule as worse-within-bound) or same.  The exit code is 1 when an
end-to-end metric is worse or unresolved.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent.parent
WIN_SHARE = 0.9


def load_bounds() -> Dict[str, Tuple[str, Optional[float]]]:
    """metric -> (better, bound) from BENCHMARK.json (bound None: per-layer)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    out.update({m["name"]: (m["better"], None) for m in spec["per_layer"]})
    out["failed_frac"] = ("lower", 0.0)
    return out


def collect(paths: List[str]) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> values, one per report, in the order given."""
    values: Dict[Tuple[str, str], List[float]] = {}
    for path in paths:
        report = json.loads(Path(path).read_text(encoding="utf-8"))
        for workload, entry in report["workloads"].items():
            for metric, cell in entry["metrics"].items():
                values.setdefault((workload, metric), []).append(float(cell["value"]))
            values.setdefault((workload, "failed_frac"), []).append(entry["failed_frac"])
    return values


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(
    a: List[float], b: List[float], better: str, bound: Optional[float]
) -> Tuple[str, float, float]:
    """``(verdict, win share of B, relative worsening of B's median)``."""
    sign = 1.0 if better == "lower" else -1.0
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) > 0)
    win_share = wins / len(pairs)
    worsening = sign * (bm - am) / abs(am) if am else sign * (bm - am)
    separated = abs(bm - am) > (a3 - a1)
    lost = losses / len(pairs) >= WIN_SHARE and separated
    if win_share >= WIN_SHARE and separated:
        return "better", win_share, worsening
    if bound is None:
        return ("worse" if lost else "same"), win_share, worsening
    spread = max((a3 - a1) / abs(am) if am else 0.0, (b3 - b1) / abs(bm) if bm else 0.0)
    if spread > bound:
        return "unresolved", win_share, worsening
    if worsening > bound:
        return "worse", win_share, worsening
    return ("worse-within-bound" if lost else "same"), win_share, worsening


def summary(paths: List[str]) -> dict:
    """Median, quartiles and count of every workload × metric over ``paths``."""
    reports = [json.loads(Path(p).read_text(encoding="utf-8")) for p in paths]
    out: Dict[str, object] = {
        key: sorted({r[key] for r in reports}) for key in ("seed", "nproc", "python")
    }
    workloads: Dict[str, dict] = {}
    for (workload, metric), values in sorted(collect(paths).items()):
        q1, median, q3 = quartiles(values)
        workloads.setdefault(workload, {})[metric] = {
            "median": median, "q1": q1, "q3": q3, "runs": len(values)
        }
    out["workloads"] = workloads
    return out


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        print("usage: compare.py A/*.json [-- B/*.json]", file=sys.stderr)
        return 2
    if "--" not in argv:
        print(json.dumps(summary(argv), indent=1))
        return 0
    split = argv.index("--")
    side_a, side_b = argv[:split], argv[split + 1:]
    if not side_a or not side_b:
        print("compare.py: both sides need at least one report", file=sys.stderr)
        return 2
    bounds = load_bounds()
    a_values, b_values = collect(side_a), collect(side_b)
    failing = False
    print(f"A: {len(side_a)} report(s)   B: {len(side_b)} report(s)")
    print(
        f"{'workload':<12} {'metric':<40} {'A median [q1, q3]':>32} "
        f"{'B median [q1, q3]':>32} {'worse by':>9} {'B wins':>7}  verdict"
    )
    for key in sorted(set(a_values) & set(b_values)):
        workload, metric = key
        if metric not in bounds:
            continue
        better, bound = bounds[metric]
        a, b = a_values[key], b_values[key]
        result, win_share, worsening = verdict(a, b, better, bound)
        if bound is not None and result in ("worse", "unresolved"):
            failing = True
        a1, am, a3 = quartiles(a)
        b1, bm, b3 = quartiles(b)
        print(
            f"{workload:<12} {metric:<40} "
            f"{f'{am:.6g} [{a1:.6g}, {a3:.6g}]':>32} "
            f"{f'{bm:.6g} [{b1:.6g}, {b3:.6g}]':>32} "
            f"{worsening:>+9.2%} {win_share:>7.0%}  {result}"
        )
    for key in sorted(set(a_values) ^ set(b_values)):
        print(f"{key[0]:<12} {key[1]:<40} only on side {'A' if key in a_values else 'B'}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
