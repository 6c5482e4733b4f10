"""Checks of the end-to-end benchmark itself, at a tiny size.

Run with the repository's tests::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402

SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 7


def tiny(name: str) -> W.Workload:
    return W.sized(W.get_workload(name), 10, 2)


def measured(name: str, trace: bool, expected=None) -> dict:
    return measure.measure(tiny(name), SEED, trace, expected)


@pytest.fixture(scope="module")
def htm_wide_traced():
    return measured("htm-wide", True)


def test_benchmark_json_matches_the_code():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == measure.LAYER_UNITS
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        w.name: w.why for w in W.WORKLOADS.values()
    }
    assert SPEC["run_seconds"] == run.DEFAULT_SECONDS
    assert SPEC["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("trace", [0, 1])
def test_cli_prints_every_metric_with_its_unit(trace, capsys, monkeypatch):
    monkeypatch.setattr(W, "SETUP_SAMPLES", 1)
    code = run.main(
        ["--workload", "mct-only", "--seed", str(SEED), "--seconds", "0",
         "--tasks", "10", "--metatasks", "2", "--trace", str(trace)]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    printed = {tuple(line.split()[1:4:2]) for line in lines[:-1]}
    for metric in spec:
        assert (metric["name"], metric["unit"]) in printed
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_same_seed_gives_identical_hashes_and_counts(htm_wide_traced):
    again = measured("htm-wide", True)
    assert again["hashes"] == htm_wide_traced["hashes"]
    counts = [k for k, unit in measure.LAYER_UNITS.items() if unit in ("count", "tasks", "ratio")]
    assert {k: again["layers"][k] for k in counts} == {
        k: htm_wide_traced["layers"][k] for k in counts
    }


def test_traced_run_gives_the_untraced_hashes(htm_wide_traced):
    assert htm_wide_traced["failed"] == 0, htm_wide_traced["failures"]
    assert measured("htm-wide", False)["hashes"] == htm_wide_traced["hashes"]


def test_corrupted_expected_hashes_fail_every_cell(htm_wide_traced):
    corrupted = {key: "0" * 64 for key in htm_wide_traced["hashes"]}
    out = measured("htm-wide", False, expected=corrupted)
    assert out["failed"] / out["attempted"] == 1.0


def test_self_times_are_not_negative(htm_wide_traced):
    layers = htm_wide_traced["layers"]
    for name, value in layers.items():
        if "self" in name:
            assert value >= 0, name
    assert all(row["self_ms"] >= 0 for row in htm_wide_traced["spans"])
    assert layers["htm.predict.calls"] > 0 and layers["fluid.whatif.calls"] > 0


def test_mct_only_never_enters_the_htm():
    out = measured("mct-only", True)
    assert out["failed"] == 0
    assert not [r for r in out["spans"] if r["span"].startswith(("htm.", "fluid.whatif."))]
    assert out["layers"]["htm.predict.calls"] == 0
    assert out["layers"]["fluid.truth.calls"] > 0


def test_committed_hashes_cover_every_workload_cell():
    expected = json.loads(W.expected_path(W.DEFAULT_SEED).read_text(encoding="utf-8"))
    for workload in W.WORKLOADS.values():
        keys = {
            W.cell_key(h, m, 0)
            for h in workload.heuristics
            for m in range(workload.metatasks)
        }
        assert set(expected[workload.name]) == keys
