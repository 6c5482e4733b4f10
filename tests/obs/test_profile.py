"""End-to-end tests of the profiling harness and instrumentation determinism.

The contracts the subsystem ships on:

* an instrumented campaign's trace JSONL, metrics JSONL and Chrome export
  are byte-identical at any ``--jobs`` level — they are functions of the
  plan, not the executor;
* turning instrumentation on does not change a single record;
* invalid instrumentation is rejected before any cell is planned.
"""

from __future__ import annotations

import filecmp
import json

import pytest

from repro import api
from repro.errors import ExperimentError
from repro.obs import Instrumentation
from repro.obs.profile import profile_scenario

_TASKS = 20


class TestProfileScenario:
    def test_report_has_phases_and_fluid_counters(self):
        report = profile_scenario("diurnal-week", tasks=_TASKS)
        assert [name for name, _ in report.phases] == [
            "setup",
            "workload-gen",
            "simulate",
            "aggregate",
            "report",
        ]
        assert report.cells_counted == report.cells_total > 0
        assert report.tasks_simulated == _TASKS * report.cells_total
        assert any(key.startswith("fluid.") for key in report.counters)
        assert report.profile_top == []  # cProfile off by default
        assert report.traces == [] and report.metrics == []  # not instrumented

    def test_cprofile_populates_hottest_functions(self):
        report = profile_scenario("diurnal-week", tasks=_TASKS, cprofile=True, top=5)
        assert 0 < len(report.profile_top) <= 5
        assert all("cumtime_s" in entry for entry in report.profile_top)

    def test_heuristic_subset_is_validated(self):
        with pytest.raises(ExperimentError):
            profile_scenario("diurnal-week", tasks=_TASKS, heuristics=["nope"])

    def test_heuristic_subset_shrinks_the_campaign(self):
        report = profile_scenario("diurnal-week", tasks=_TASKS, heuristics=["mct"])
        assert report.cells_total == 1

    def test_duplicate_heuristics_are_rejected(self):
        with pytest.raises(ExperimentError, match="more than once"):
            profile_scenario("paper-low-rate", tasks=5, heuristics=["mct", "mct"])

    def test_instrumented_report_carries_traces_and_series(self):
        report = profile_scenario(
            "diurnal-week",
            tasks=_TASKS,
            instrumentation=Instrumentation(trace=True, metrics_interval=120.0),
        )
        assert len(report.traces) == len(report.metrics) == report.cells_total
        rendered = report.render()
        assert "trace:" in rendered and "metrics:" in rendered


def _profile(tmp_path, tag, **kwargs):
    """Run ``api.profile`` writing every artifact under ``tmp_path``."""
    paths = {
        "trace_path": str(tmp_path / f"trace-{tag}.jsonl"),
        "chrome_path": str(tmp_path / f"chrome-{tag}.json"),
    }
    report = api.profile("diurnal-week", tasks=_TASKS, **paths, **kwargs)
    return report, paths


class TestTraceDeterminism:
    def test_trace_is_byte_identical_across_jobs(self, tmp_path):
        paths = {}
        for jobs in (1, 2):
            report, paths[jobs] = _profile(tmp_path, f"j{jobs}", jobs=jobs)
            assert sum(len(cell.events) for cell in report.traces) > 0
            assert sum(cell.dropped for cell in report.traces) == 0
        for key in ("trace_path", "chrome_path"):
            assert filecmp.cmp(paths[1][key], paths[2][key], shallow=False)

    def test_trace_covers_the_event_taxonomy(self, tmp_path):
        _, paths = _profile(tmp_path, "taxonomy")
        kinds = {
            json.loads(line)["kind"]
            for line in open(paths["trace_path"], encoding="utf-8")
        }
        assert {"task.submit", "task.dispatch", "task.complete", "monitor.report"} <= kinds
        assert any(kind.startswith("htm.") for kind in kinds)  # hmct/msf cells

    def test_ring_limit_truncates_visibly(self, tmp_path):
        report, paths = _profile(tmp_path, "limited", limit=10)
        dropped = sum(cell.dropped for cell in report.traces)
        assert dropped > 0
        assert "WARNING: ring limit dropped" in report.render()
        markers = [
            json.loads(line)
            for line in open(paths["trace_path"], encoding="utf-8")
            if json.loads(line)["kind"] == "trace.dropped"
        ]
        assert sum(marker["count"] for marker in markers) == dropped

    def test_chrome_export_loads_and_uses_virtual_clock(self, tmp_path):
        _, paths = _profile(tmp_path, "chrome")
        doc = json.load(open(paths["chrome_path"], encoding="utf-8"))
        assert doc["otherData"]["clock"] == "virtual"
        assert any(event["ph"] == "i" for event in doc["traceEvents"])
        assert not any(event["ph"] == "C" for event in doc["traceEvents"])

    def test_combined_chrome_holds_events_and_counters_per_cell(self, tmp_path):
        chrome = str(tmp_path / "both.json")
        report = api.profile(
            "diurnal-week",
            tasks=_TASKS,
            trace_path=str(tmp_path / "trace.jsonl"),
            metrics_path=str(tmp_path / "metrics.jsonl"),
            interval=120.0,
            chrome_path=chrome,
        )
        events = json.load(open(chrome, encoding="utf-8"))["traceEvents"]
        processes = [e for e in events if e["name"] == "process_name"]
        # One process per cell: the counter tracks joined the traced cells.
        assert len(processes) == report.cells_total
        for process in processes:
            phases = {e["ph"] for e in events if e["pid"] == process["pid"]}
            assert {"i", "C"} <= phases, process["args"]["name"]


def _campaign_kwargs():
    from repro.experiments.config import ExperimentConfig, ExperimentScale
    from repro.scenarios.scenario import (
        build_scenario_metatasks,
        get_scenario,
        scenario_config,
    )

    scenario = get_scenario("diurnal-week")
    config = scenario_config(
        scenario,
        ExperimentConfig(
            scale=ExperimentScale(
                name="tiny", task_count=_TASKS, metatask_count=1, repetitions=1
            )
        ),
    )
    return dict(
        experiment_id=f"scenario-{scenario.name}",
        title="t",
        # a fresh platform per call: a middleware cannot run twice
        platform=scenario.platform_factory(),
        metatasks=build_scenario_metatasks(scenario, config),
        config=config,
        jobs=1,
    )


class TestInstrumentationNeverChangesRecords:
    def test_traced_and_untraced_campaigns_agree(self):
        from repro.experiments.campaign import run_campaign

        plain = run_campaign(**_campaign_kwargs())
        traced = run_campaign(
            **_campaign_kwargs(), instrumentation=Instrumentation(trace=True)
        )
        assert plain.result_set.records == traced.result_set.records
        assert plain.render() == traced.render()
        assert plain.traces == []
        assert len(traced.traces) > 0
        assert all(len(cell.events) > 0 for cell in traced.traces)

    def test_fully_instrumented_campaign_keeps_the_records(self, tmp_path):
        from repro.experiments.campaign import run_campaign
        from repro.obs import write_chrome_trace

        plain = run_campaign(**_campaign_kwargs())
        full = run_campaign(
            **_campaign_kwargs(),
            instrumentation=Instrumentation(
                trace=True, trace_limit=50, metrics_interval=60.0, metrics_window=120.0
            ),
        )
        assert write_chrome_trace(
            str(tmp_path / "both.json"), full.traces, cell_metrics=full.metrics
        ) > 0
        assert full.result_set.to_jsonl() == plain.result_set.to_jsonl()
        assert full.render() == plain.render()
        assert len(full.traces) == len(full.metrics) == len(plain.result_set)


class TestInstrumentationValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"trace": True, "trace_limit": 0},
            {"metrics_interval": 0.0},
            {"metrics_interval": -1.0},
            {"metrics_interval": float("nan")},
            {"metrics_interval": 60.0, "metrics_window": 0.0},
            {"metrics_window": 120.0},
        ],
    )
    def test_invalid_settings_raise_a_library_error(self, kwargs):
        with pytest.raises(ExperimentError):
            Instrumentation(**kwargs)

    @pytest.mark.parametrize("warm", [False, True])
    def test_rejected_with_a_cold_or_warm_store(self, tmp_path, warm):
        from repro.experiments.campaign import run_campaign

        store = str(tmp_path / "store")
        if warm:
            run_campaign(**_campaign_kwargs(), store=store)
        # The value is built before the campaign is planned, so a warm store
        # that would execute no cell cannot hide the bad knob.
        with pytest.raises(ExperimentError):
            run_campaign(
                **_campaign_kwargs(),
                store=store,
                instrumentation=Instrumentation(
                    trace=True, trace_limit=0, metrics_interval=0.0
                ),
            )

    def test_outputs_imply_what_they_need(self, tmp_path):
        with pytest.raises(ExperimentError, match="trace"):
            api.profile("diurnal-week", tasks=_TASKS, limit=10)
        with pytest.raises(ExperimentError, match="metrics"):
            api.profile("diurnal-week", tasks=_TASKS, interval=60.0)
        with pytest.raises(ExperimentError, match="Chrome"):
            api.profile(
                "diurnal-week", tasks=_TASKS, chrome_path=str(tmp_path / "c.json")
            )


class TestCli:
    def test_profile_from_the_shell(self, tmp_path, capsys):
        from repro.cli import main

        json_path = str(tmp_path / "perf.json")
        out = str(tmp_path / "trace.jsonl")
        metrics = str(tmp_path / "metrics.jsonl")
        assert main([
            "profile", "diurnal-week",
            "--tasks", str(_TASKS), "--heuristics", "mct", "--json", json_path,
            "--trace", out, "--metrics", metrics, "--interval", "120",
        ]) == 0
        captured = capsys.readouterr()
        assert "perf report: diurnal-week" in captured.out
        assert "trace: " in captured.out
        assert f"wrote {out}" in captured.err
        assert json.load(open(json_path))["schema"] == "perf-report/v1"
        assert len(open(out).read().splitlines()) > 0
        assert json.loads(open(metrics).readline())["schema"] == "metrics/v1"

    @pytest.mark.parametrize(
        "extra",
        [
            ["--jobs", "0"],
            ["--trace", "t.jsonl", "--limit", "0"],
            ["--metrics", "m.jsonl", "--interval", "0"],
            ["--heuristics", "mct,mct"],
        ],
    )
    def test_profile_rejects_bad_options(self, extra):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["profile", "diurnal-week", "--tasks", str(_TASKS)] + extra)

    def test_retired_subcommands_are_gone(self):
        from repro.cli import main

        for argv in (["profile", "trace", "diurnal-week"], ["bench", "run"]):
            with pytest.raises(SystemExit):
                main(argv)
