"""End-to-end benchmark of the repro simulator.

Usage, from the root of the repository::

    python3 benchmarks/e2e/run.py [--workloads a,b] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--json OUT]

For every workload it starts fresh processes of ``measure.py``, one at a
time: at least three that each run the workload's campaign once, then as
many as it takes to time set-up in five fresh processes.
It prints every metric as ``workload metric value unit``, then one JSON
object on the last line: ``{"correct", "attempted", "failed", "metrics"}``.
Without ``--trace`` the metrics are the end-to-end ones; with ``--trace`` a
separately traced campaign gives the per-layer ones instead.  With several
workloads the metric names are prefixed ``<workload>.``.

The exit code is 0 only when every cell passed the output gate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
import workloads as W  # noqa: E402
from measure import LAYER_UNITS  # noqa: E402

#: End-to-end metrics: name -> unit.
END_TO_END_UNITS = {
    "tasks_per_s": "tasks/s",
    "cell_ms_p50": "ms",
    "cell_ms_p75": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Default of ``--seconds`` (``run_seconds`` in BENCHMARK.json).
DEFAULT_SECONDS = 8

#: Fewest measuring processes per untraced workload (each cell's best time).
MIN_RUNS = 3

#: Wall-clock limits of one child process (seconds).
SETUP_TIMEOUT = 60
RUN_TIMEOUT = 170


class ChildFailed(RuntimeError):
    pass


def child(args: List[str], timeout: float) -> dict:
    """Run ``measure.py`` in a fresh process and parse its last stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "measure.py"), *args],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            timeout=timeout,
            text=True,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"measure.py {' '.join(args)} timed out after {timeout}s") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise ChildFailed(f"measure.py {' '.join(args)} exited {done.returncode}")
    return json.loads(lines[-1])


def end_to_end(runs: List[dict], setups: List[dict]) -> Dict[str, float]:
    """End-to-end metrics from each cell's best time across measuring processes."""
    cells = [min(times) for times in zip(*(r["cell_s"] for r in runs))]
    return {
        "tasks_per_s": runs[0]["tasks"] / sum(cells),
        "cell_ms_p50": W.percentile(cells, 50) * 1e3,
        # At least ten cells lie beyond it on every workload (48 or more cells).
        "cell_ms_p75": W.percentile(cells, 75) * 1e3,
        "setup_s": statistics.median(
            [(s["import_ms"] + s["platform_ms"] + s["workload_gen_ms"]) / 1e3 for s in setups]
        ),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in runs]),
    }


def per_layer(run: dict, setups: List[dict]) -> Dict[str, float]:
    metrics = dict(run["layers"])
    for part in ("import_ms", "platform_ms", "workload_gen_ms"):
        metrics[f"setup.{part}"] = statistics.median([s[part] for s in setups])
    return {name: metrics[name] for name in LAYER_UNITS}


def bench_workload(name: str, args) -> dict:
    """Measuring processes, then set-up-only ones, of one workload.

    Untraced, the campaign runs in at least ``MIN_RUNS`` fresh processes,
    one after another, until their campaigns add up to ``--seconds``; every
    cell's time is its best over those processes.  Host noise only ever
    slows a cell down, and on a shared 2-core host it comes in bursts of
    about a second, so a burst must hit the same cell in every process to
    move the best time.  Traced, one process runs the campaign untraced and
    then traced.  Set-up is timed in ``SETUP_SAMPLES`` fresh processes, the
    measuring ones included.
    """
    common = ["--workload", name, "--seed", str(args.seed)]
    if args.tasks is not None:
        common += ["--tasks", str(args.tasks)]
    if args.metatasks is not None:
        common += ["--metatasks", str(args.metatasks)]
    runs: List[dict] = []
    while True:
        runs.append(child(["run", *common, "--trace", str(args.trace)], RUN_TIMEOUT))
        measured = sum(r.get("wall_s", 0.0) for r in runs)
        enough = len(runs) >= MIN_RUNS and measured >= args.seconds
        if args.trace or runs[-1]["failed"] or enough:
            break
    setups = [r["setup"] for r in runs]
    setups += [child(["setup", *common], SETUP_TIMEOUT) for _ in range(W.SETUP_SAMPLES - len(runs))]

    failed = sum(r["failed"] for r in runs)
    failures = {f"run{i}:{k}": why for i, r in enumerate(runs) for k, why in r["failures"].items()}
    for i, run in enumerate(runs[1:], start=1):
        for key, digest in (run.get("hashes") or {}).items():
            if digest != runs[0]["hashes"].get(key) and f"untraced:{key}" not in run["failures"]:
                failures[f"run{i}:untraced:{key}"] = "record hash differs between processes"
                failed += 1
    out = {
        "attempted": sum(r["attempted"] for r in runs),
        "failed": failed,
        "failures": failures,
        "campaign_walls_s": [r.get("wall_s") for r in runs],
        "hashes": runs[0].get("hashes"),
        "expected_checked": runs[0]["expected_checked"],
        "spans": runs[0].get("spans"),
        "metrics": {},
        "units": LAYER_UNITS if args.trace else END_TO_END_UNITS,
    }
    if all("cell_s" in r for r in runs) and (not args.trace or "layers" in runs[0]):
        out["metrics"] = per_layer(runs[0], setups) if args.trace else end_to_end(runs, setups)
    return out


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the repro simulator.",
        epilog="Workloads: " + ", ".join(W.WORKLOADS),
    )
    parser.add_argument(
        "--workloads", "--workload", default=",".join(W.WORKLOADS),
        help="comma-separated workloads (default: all)",
    )
    parser.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=DEFAULT_SECONDS,
        help="keep starting measuring processes until their campaigns add up "
        "to this many seconds (at least %d processes)" % MIN_RUNS,
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="print per-layer metrics from a traced campaign instead",
    )
    parser.add_argument("--json", metavar="OUT", help="also write a full report here")
    parser.add_argument(
        "--update-expected", action="store_true",
        help=f"rewrite {W.expected_path(W.DEFAULT_SEED).name}-style record hashes "
        "for this seed from this run",
    )
    parser.add_argument("--tasks", type=int, help="override tasks per metatask (tests)")
    parser.add_argument("--metatasks", type=int, help="override metatasks (tests)")
    args = parser.parse_args(argv)
    args.workloads = [w for w in args.workloads.split(",") if w]
    for name in args.workloads:
        W.get_workload(name)
    if args.update_expected and (args.tasks is not None or args.metatasks is not None):
        parser.error("--update-expected records the committed sizes only")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro package under {SRC}", file=sys.stderr)
        return 2

    prefix = len(args.workloads) > 1
    report = {
        "benchmark": "repro-e2e/v1",
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "workloads": {},
    }
    attempted = failed = 0
    metrics_out: Dict[str, dict] = {}
    started = time.perf_counter()
    try:
        for name in args.workloads:
            result = bench_workload(name, args)
            for key, why in sorted(result["failures"].items())[:10]:
                print(f"FAILED {name} {key}: {why}", file=sys.stderr)
            attempted += result["attempted"]
            failed += result["failed"]
            units = result.pop("units")
            for metric, value in result["metrics"].items():
                print(f"{name} {metric} {value!r} {units[metric]}")
                key = f"{name}.{metric}" if prefix else metric
                metrics_out[key] = {"value": value, "unit": units[metric]}
            result["failed_frac"] = result["failed"] / result["attempted"]
            print(f"{name} failed_frac {result['failed_frac']!r} cells/cells")
            result["metrics"] = {
                m: {"value": v, "unit": units[m]} for m, v in result["metrics"].items()
            }
            report["workloads"][name] = result
    except ChildFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(f"# {len(args.workloads)} workload(s) in {time.perf_counter() - started:.1f}s", file=sys.stderr)

    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    if args.update_expected:
        path = W.expected_path(args.seed)
        expected = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        for name, entry in report["workloads"].items():
            expected[name] = entry["hashes"]
        path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics_out,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
