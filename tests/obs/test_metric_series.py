"""Tests of the virtual-time metrics sampler, serialisation and dashboards."""

from __future__ import annotations

import json
import pickle

import pytest

from repro.errors import ResultsError
from repro.obs import (
    CellMetrics,
    Instrumentation,
    MetricSeries,
    MetricsSampler,
    SeriesView,
    read_metrics_jsonl,
    render_metrics_html,
    render_metrics_text,
    sparkline,
    views_from_rows,
    write_metrics_csv,
    write_metrics_html,
    write_metrics_jsonl,
)
from repro.platform.middleware import GridMiddleware, MiddlewareConfig


class TestMetricSeries:
    def test_append_and_columns(self):
        series = MetricSeries()
        series.append(0.0, {"a": 1.0, "b": 2.0})
        series.append(60.0, {"a": 3.0, "b": 4.0})
        assert len(series) == 2
        assert series.times == [0.0, 60.0]
        assert series.columns == ("a", "b")
        assert series.column("a") == [1.0, 3.0]

    def test_column_set_is_fixed_by_the_first_row(self):
        series = MetricSeries()
        series.append(0.0, {"a": 1.0})
        with pytest.raises(ValueError):
            series.append(60.0, {"a": 1.0, "b": 2.0})

    def test_pickles_across_worker_boundaries(self):
        series = MetricSeries()
        series.append(0.0, {"a": 1.0})
        clone = pickle.loads(pickle.dumps(series))
        assert clone.times == series.times
        assert clone.column("a") == series.column("a")


class TestMetricsSampler:
    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            MetricsSampler(0.0)

    def test_window_defaults_to_a_multiple_of_the_interval(self):
        assert MetricsSampler(60.0).window == 300.0
        assert MetricsSampler(60.0, window=100.0).window == 100.0

    def test_window_stats_prune_old_completions(self):
        sampler = MetricsSampler(10.0, window=100.0)
        sampler.note_completion(50.0, latency=5.0)
        sampler.note_completion(120.0, latency=15.0)
        throughput, latency = sampler.window_stats(160.0)
        # Only the t=120 completion is inside (60, 160].
        assert throughput == pytest.approx(1.0 / 100.0)
        assert latency == pytest.approx(15.0)
        assert sampler.window_stats(1000.0) == (0.0, 0.0)


class TestMiddlewareSampling:
    def _run(self, platform, metatask, sampler=None):
        config = MiddlewareConfig(
            memory_enabled=False, noise_model=None, monitor_jitter_s=0.0, seed=7
        )
        middleware = GridMiddleware(
            platform, "mct", config=config, sampler=sampler
        )
        return middleware.run(metatask)

    def test_sampled_run_produces_the_series(
        self, first_platform, small_matmul_metatask
    ):
        sampler = MetricsSampler(60.0)
        result = self._run(first_platform, small_matmul_metatask, sampler)
        series = result.metric_series
        assert series is not None and len(series) >= 2
        names = set(series.columns)
        assert {"inflight", "completed", "failed", "throughput_w",
                "latency_w", "staleness_s", "htm_unfinished"} <= names
        for server in first_platform.server_names():
            assert f"queue.{server}" in names
            assert f"util.{server}" in names
        # Cumulative completions are monotone and end at the task count.
        completed = series.column("completed")
        assert completed == sorted(completed)
        assert completed[-1] == float(len(small_matmul_metatask))
        assert all(0.0 <= u <= 1.0 for u in series.column("util.pulney"))

    def test_sampling_does_not_change_the_run(
        self, first_platform, small_matmul_metatask
    ):
        plain = self._run(first_platform, small_matmul_metatask)
        sampled = self._run(first_platform, small_matmul_metatask, MetricsSampler(60.0))
        assert plain.duration == sampled.duration
        assert [t.completion_time for t in plain.tasks] == [
            t.completion_time for t in sampled.tasks
        ]
        assert plain.counters == sampled.counters

    def test_samples_fall_on_the_interval_grid(self, first_platform, small_matmul_metatask):
        result = self._run(first_platform, small_matmul_metatask, MetricsSampler(60.0))
        times = result.metric_series.times
        # Ticks at 0, 60, 120, ... then one closing sample at the run's end.
        assert times[:-1] == [60.0 * i for i in range(len(times) - 1)]
        assert times[-2] < times[-1] == result.duration

    def test_unsampled_run_has_no_series(self, first_platform, small_matmul_metatask):
        assert self._run(first_platform, small_matmul_metatask).metric_series is None

    def test_zero_task_run_samples_once_at_time_zero(self, first_platform):
        sampler = MetricsSampler(60.0)
        config = MiddlewareConfig(
            memory_enabled=False, noise_model=None, monitor_jitter_s=0.0,
            seed=7, max_horizon_s=200.0,
        )
        result = GridMiddleware(
            first_platform, "mct", config=config, sampler=sampler
        ).run([])
        assert not result.truncated  # zero expected, zero terminal
        series = result.metric_series
        # The run ends at t=0, on the first tick: that tick is its only sample.
        assert series.times == [0.0]
        assert all(v == 0.0 for v in series.column("inflight"))
        assert all(v == 0.0 for v in series.column("completed"))

    def test_horizon_truncated_run_closes_with_a_final_sample(
        self, first_platform, small_matmul_metatask
    ):
        sampler = MetricsSampler(2.0)
        config = MiddlewareConfig(
            memory_enabled=False, noise_model=None, monitor_jitter_s=0.0,
            seed=7, max_horizon_s=5.0,
        )
        result = GridMiddleware(
            first_platform, "mct", config=config, sampler=sampler
        ).run(small_matmul_metatask)
        assert result.truncated
        series = result.metric_series
        # The closing sample lands at the horizon and still shows the tasks
        # as in flight: the post-hoc 'horizon' failures are bookkeeping, not
        # something the simulation observed.
        assert series.times[-1] == 5.0
        assert series.column("inflight")[-1] > 0.0
        assert series.column("failed")[-1] == 0.0


class TestCellMetrics:
    def test_from_series_and_views(self):
        series = MetricSeries()
        series.append(0.0, {"a": 1.0})
        series.append(60.0, {"a": 2.0})
        cell = CellMetrics.from_series("mct", 0, 1, series)
        assert cell.cell_id == "mct/m0/rep1"
        assert cell.column("a") == (1.0, 2.0)
        with pytest.raises(KeyError):
            cell.column("missing")
        view = cell.view()
        assert view.label == "mct/m0/rep1"
        assert view.columns["a"] == (1.0, 2.0)

    def test_from_none_is_an_empty_cell(self):
        cell = CellMetrics.from_series("mct", 0, 0, None)
        assert cell.times == () and cell.columns == ()


def _two_cells():
    series = MetricSeries()
    series.append(0.0, {"inflight": 0.0, "queue.a": 0.0})
    series.append(60.0, {"inflight": 2.0, "queue.a": 1.5})
    full = CellMetrics.from_series("mct", 0, 0, series)
    empty = CellMetrics.from_series("msf", 0, 0, None)
    return [full, empty]


class TestSerialisation:
    def test_jsonl_roundtrip(self, tmp_path):
        path = str(tmp_path / "metrics.jsonl")
        assert write_metrics_jsonl(path, _two_cells()) == 2
        header, rows = read_metrics_jsonl(path)
        assert header == {"schema": "metrics/v1", "cells": 2}
        assert [row["cell"] for row in rows] == ["mct/m0/rep0"] * 2
        assert rows[1]["queue.a"] == 1.5
        views = views_from_rows(rows)
        assert [view.label for view in views] == ["mct/m0/rep0"]
        assert views[0].columns["inflight"] == (0.0, 2.0)

    def test_schema_mismatch_is_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema":"metrics/v999","cells":0}\n', encoding="utf-8")
        with pytest.raises(ResultsError):
            read_metrics_jsonl(str(path))

    def test_csv_export(self, tmp_path):
        path = str(tmp_path / "metrics.csv")
        write_metrics_csv(path, _two_cells())
        lines = (tmp_path / "metrics.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "cell,t,inflight,queue.a"
        assert lines[1] == "mct/m0/rep0,0.0,0.0,0.0"
        assert lines[2] == "mct/m0/rep0,60.0,2.0,1.5"


class TestCampaignDeterminism:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_metrics_jsonl_is_byte_identical_across_jobs(self, tmp_path, jobs):
        from repro import api

        paths = []
        for tag, level in (("serial", 1), ("parallel", jobs)):
            path = str(tmp_path / f"metrics-{tag}.jsonl")
            api.profile(
                "paper-low-rate", metrics_path=path, tasks=15, jobs=level, interval=120.0
            )
            paths.append(path)
        with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
            assert a.read() == b.read()

    def test_store_recovered_cells_have_empty_series(self, tmp_path):
        import numpy as np

        from repro.experiments import ExperimentConfig, ExperimentScale, run_campaign
        from repro.workload.testbed import first_set_platform, matmul_metatask

        config = ExperimentConfig(
            scale=ExperimentScale(name="tiny", task_count=10, metatask_count=1),
            seed=42,
        )
        metatask = matmul_metatask(10, 20.0, rng=np.random.default_rng(42), name="m")
        store = str(tmp_path / "store")
        cold = run_campaign(
            "t", "t", first_set_platform(), [metatask], config,
            store=store, instrumentation=Instrumentation(metrics_interval=60.0),
        )
        assert all(len(cell.times) > 0 for cell in cold.metrics)
        warm = run_campaign(
            "t", "t", first_set_platform(), [metatask], config,
            store=store, instrumentation=Instrumentation(metrics_interval=60.0),
        )
        assert [r.__dict__ for r in warm.result_set] == [
            r.__dict__ for r in cold.result_set
        ]
        assert all(cell.times == () for cell in warm.metrics)

    def test_metrics_off_campaign_has_no_ride_along(self):
        import numpy as np

        from repro.experiments import ExperimentConfig, ExperimentScale, run_campaign
        from repro.workload.testbed import first_set_platform, matmul_metatask

        config = ExperimentConfig(
            scale=ExperimentScale(name="tiny", task_count=10, metatask_count=1),
            seed=42,
        )
        metatask = matmul_metatask(10, 20.0, rng=np.random.default_rng(42), name="m")
        table = run_campaign("t", "t", first_set_platform(), [metatask], config)
        assert table.metrics == []


GOLDEN_VIEWS = [
    SeriesView(
        label="mct/m0/rep0",
        times=(0.0, 60.0, 120.0, 180.0),
        columns={
            "inflight": (0.0, 2.0, 4.0, 1.0),
            "completed": (0.0, 1.0, 3.0, 6.0),
        },
    ),
    SeriesView(
        label="msf/m0/rep0",
        times=(0.0, 60.0, 120.0),
        columns={"inflight": (0.0, 3.0, 0.0), "completed": (0.0, 2.0, 5.0)},
    ),
]

GOLDEN_TEXT = """\
metrics: 2 cell(s), 7 sample(s), 2 column(s)
mct/m0/rep0 — 4 samples, t 0..180 s
  inflight   min          0  mean       1.75  max          4  ▁▅█▃
  completed  min          0  mean        2.5  max          6  ▁▂▅█
msf/m0/rep0 — 3 samples, t 0..120 s
  inflight   min          0  mean          1  max          3  ▁█▁
  completed  min          0  mean    2.33333  max          5  ▁▄█"""


class TestDashboards:
    def test_sparkline_shapes(self):
        assert sparkline([0.0, 1.0, 2.0, 3.0], width=4) == "▁▃▆█"
        assert sparkline([5.0, 5.0, 5.0], width=3) == "▁▁▁"  # flat stays low
        assert sparkline([], width=4) == ""
        with pytest.raises(ValueError):
            sparkline([1.0], width=0)

    def test_golden_text_snapshot(self):
        assert render_metrics_text(GOLDEN_VIEWS, width=8) == GOLDEN_TEXT

    def test_golden_html_snapshot(self, tmp_path):
        html = render_metrics_html(GOLDEN_VIEWS, columns=["inflight"], title="golden")
        assert html.startswith("<!DOCTYPE html>")
        assert "<title>golden</title>" in html
        # One polyline per series, palette colours in legend order.
        assert html.count("<polyline") == 2
        assert 'stroke="#0072b2"' in html and 'stroke="#d55e00"' in html
        assert (
            'points="0.00,120.00 213.33,60.00 426.67,0.00 640.00,90.00"' in html
        )
        # Self-contained: no external references of any kind.
        assert "http" not in html and "src=" not in html
        path = str(tmp_path / "report.html")
        write_metrics_html(path, GOLDEN_VIEWS, columns=["inflight"], title="golden")
        assert (tmp_path / "report.html").read_text(encoding="utf-8") == html + "\n"

    def test_empty_views_render_helpfully(self):
        assert "no samples" in render_metrics_text(
            [SeriesView(label="x", times=(), columns={})]
        )
        assert "no samples" in render_metrics_html(
            [SeriesView(label="x", times=(), columns={})], columns=["inflight"]
        )
