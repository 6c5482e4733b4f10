"""Every observability artifact is written atomically.

The trace JSONL, metrics JSONL/CSV, Chrome trace, HTML dashboard and perf
report all go through :func:`repro.store.journal.atomic_write_text`: a
replaced file keeps its permissions, no temporary file survives, and a write
that fails before the final rename leaves the previous artifact untouched.
"""

from __future__ import annotations

import os
import stat

import pytest

from repro.obs import (
    CellMetrics,
    CellTrace,
    MetricSeries,
    PerfReport,
    SeriesView,
    TraceEvent,
    write_chrome_trace,
    write_metrics_csv,
    write_metrics_html,
    write_metrics_jsonl,
    write_trace_jsonl,
)


def _trace():
    return CellTrace(
        heuristic="mct",
        metatask_index=0,
        repetition=0,
        events=(TraceEvent(0.0, "task.submit", (("task", "t1"),)),),
    )


def _metrics():
    series = MetricSeries()
    series.append(0.0, {"inflight": 0.0, "queue.a": 1.0})
    series.append(60.0, {"inflight": 2.0, "queue.a": 0.0})
    return CellMetrics.from_series("mct", 0, 0, series)


def _view():
    return SeriesView(
        label="mct/m0/rep0", times=(0.0, 60.0), columns={"inflight": (0.0, 2.0)}
    )


def _perf_report():
    return PerfReport(
        scenario="diurnal-week",
        experiment_id="scenario-diurnal-week",
        scale={"tasks_per_metatask": 10},
        phases=[("simulate", 0.5)],
        counters={"fluid.completions": 10},
    )


WRITERS = {
    "trace-jsonl": lambda path: write_trace_jsonl(path, [_trace()]),
    "metrics-jsonl": lambda path: write_metrics_jsonl(path, [_metrics()]),
    "metrics-csv": lambda path: write_metrics_csv(path, [_metrics()]),
    "chrome": lambda path: write_chrome_trace(
        path, [_trace()], cell_metrics=[_metrics()]
    ),
    "html": lambda path: write_metrics_html(path, [_view()]),
    "perf-report": lambda path: _perf_report().save_json(path),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_overwrite_keeps_mode_and_leaves_no_temp_file(tmp_path, name):
    path = tmp_path / "artifact"
    path.write_text("old\n", encoding="utf-8")
    os.chmod(path, 0o640)
    WRITERS[name](str(path))
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o640
    assert path.read_text(encoding="utf-8") != "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_failed_write_leaves_the_previous_artifact(tmp_path, monkeypatch, name):
    path = tmp_path / "artifact"
    path.write_text("old\n", encoding="utf-8")

    def interrupted(src, dst):
        raise OSError("interrupted before the rename")

    monkeypatch.setattr("repro.store.journal.os.replace", interrupted)
    with pytest.raises(OSError, match="interrupted"):
        WRITERS[name](str(path))
    assert path.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]
