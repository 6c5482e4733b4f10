"""Tests of the perf-report counter rollup, document schema and persistence."""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.obs import PerfReport, counter_rollup


class _Record:
    def __init__(self, heuristic="mct", metatask_index=0, repetition=0, truncated=False):
        self.heuristic = heuristic
        self.metatask_index = metatask_index
        self.repetition = repetition
        self.truncated = truncated


class _Run:
    def __init__(self, n_tasks):
        self.tasks = [object()] * n_tasks


class _Records(list):
    meta: dict = {}


def _table(records, counters, runs):
    """A duck-typed campaign table: records, per-cell counters, live runs."""
    return SimpleNamespace(
        result_set=_Records(records),
        counters=counters,
        outcomes={"mct": SimpleNamespace(runs=runs)},
    )


class TestCounterRollup:
    def test_counts_fresh_cells_and_merges_counters(self):
        rollup = counter_rollup(
            _table(
                [_Record(), _Record(repetition=1), _Record(repetition=2)],
                [{"a": 1, "b": 2}, {"a": 5}, None],  # cell 2 came from the store
                [_Run(10), _Run(10)],
            )
        )
        assert rollup["cells_total"] == 3
        assert rollup["cells_counted"] == 2
        assert rollup["cells_cached"] == 1
        assert rollup["tasks_simulated"] == 20
        assert rollup["counters"] == {"a": 6, "b": 2}
        assert rollup["per_cell"][0][0] == "mct/m0/rep0"

    def test_truncated_cells_are_flagged(self):
        rollup = counter_rollup(_table([_Record(truncated=True)], [{}], [_Run(0)]))
        assert rollup["truncated_cells"] == 1


def _report(**overrides):
    kwargs = dict(
        scenario="diurnal-week",
        experiment_id="scenario-diurnal-week",
        scale={"tasks_per_metatask": 40},
        phases=[("setup", 0.1), ("simulate", 0.9)],
        counters={"fluid.completions": 40},
        cells_total=4,
        cells_counted=4,
        tasks_simulated=160,
    )
    kwargs.update(overrides)
    return PerfReport(**kwargs)


class TestPerfReport:
    def test_as_dict_schema(self):
        doc = _report().as_dict()
        assert doc["schema"] == "perf-report/v1"
        assert doc["wall_s_total"] == pytest.approx(1.0)
        assert doc["phases"][1] == {"name": "simulate", "wall_s": 0.9, "share": 0.9}
        assert doc["cells"] == {"total": 4, "counted": 4, "cached": 0, "truncated": 0}
        assert doc["throughput"]["tasks_simulated"] == 160

    def test_throughput_handles_zero_wall_time(self):
        assert _report(phases=[]).tasks_per_s == 0.0

    def test_save_json_writes_atomically(self, tmp_path):
        path = str(tmp_path / "perf-report.json")
        assert _report().save_json(path) == path
        doc = json.load(open(path, encoding="utf-8"))
        assert doc["schema"] == "perf-report/v1"
        leftovers = [p for p in tmp_path.iterdir() if p.name != "perf-report.json"]
        assert leftovers == []  # no temp file survives a clean save

    def test_render_lists_phases_and_counters(self):
        text = _report().render()
        assert "perf report: diurnal-week" in text
        assert "simulate" in text and "fluid.completions" in text
