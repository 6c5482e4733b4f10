"""Tests of the ``repro.api`` facade, streaming observers and the CLI results
commands."""

from __future__ import annotations

import io

import pytest

from repro import api
from repro.cli import main as cli_main
from repro.errors import ExperimentError, ResultsError
from repro.experiments import ExperimentConfig, ExperimentScale
from repro.results import (
    CampaignObserver,
    ProgressObserver,
    ResultSet,
    ResultSetObserver,
    RunRecord,
)
from repro.scenarios import run_sweep

SMOKE_SCALE = ExperimentScale(name="api-smoke", task_count=15, metatask_count=1, repetitions=1)


def smoke_config(jobs: int = 1) -> ExperimentConfig:
    return ExperimentConfig(scale=SMOKE_SCALE, seed=2003, jobs=jobs)


@pytest.fixture(scope="module")
def table5():
    return api.run("table5", config=smoke_config())


class TestApiRun:
    def test_run_returns_a_table_carrying_records(self, table5):
        assert table5.experiment_id == "table5"
        assert table5.result_set is not None
        assert len(table5.result_set) == 4  # heuristics × 1 metatask × 1 rep
        assert table5.result_set.pivot().columns == table5.columns

    def test_scale_seed_and_jobs_overrides(self):
        table = api.run("table5", scale=SMOKE_SCALE, seed=2003, jobs=2)
        reference = api.run("table5", config=smoke_config())
        assert table.columns == reference.columns

    def test_named_scales_are_accepted(self):
        # smoke is the registered small scale — just check it resolves.
        table = api.run("table5", scale="smoke", seed=7)
        assert table.result_set.meta["scale"] == "smoke"

    def test_unknown_scale_name_fails_fast(self):
        with pytest.raises(ExperimentError, match="unknown scale"):
            api.run("table5", scale="gigantic")

    def test_records_carry_provenance(self, table5):
        for record in table5.result_set:
            assert record.experiment_id == "table5"
            assert record.config_hash == table5.result_set.meta["config_hash"]
            assert record.seed >= 2003
            assert not record.truncated


class TestApiSweepAndCompare:
    @pytest.fixture(scope="class")
    def sweep_result(self):
        return api.sweep(["paper-low-rate"], config=smoke_config())

    def test_sweep_combines_records_across_scenarios(self, sweep_result):
        result_set = sweep_result.result_set
        assert set(result_set.column("experiment_id")) == {"scenario-paper-low-rate"}
        table = sweep_result.tables["paper-low-rate"]
        assert len(result_set) == len(table.result_set)

    def test_save_load_compare_round_trip(self, sweep_result, tmp_path):
        path = api.save_results(sweep_result, tmp_path / "sweep.jsonl")
        loaded = api.load_results(path)
        diff = api.compare(sweep_result, loaded)
        assert diff.identical
        assert api.compare(path, path).identical

    def test_compare_detects_changed_metrics(self, table5):
        doctored = ResultSet(meta=table5.result_set.meta)
        for record in table5.result_set:
            metrics = dict(record.metrics)
            if record.heuristic == "msf":
                metrics["sum_flow"] = metrics["sum_flow"] + 1.0
            doctored.append(
                RunRecord(
                    experiment_id=record.experiment_id,
                    heuristic=record.heuristic,
                    metatask_index=record.metatask_index,
                    repetition=record.repetition,
                    seed=record.seed,
                    config_hash=record.config_hash,
                    truncated=record.truncated,
                    metrics=metrics,
                )
            )
        diff = api.compare(table5, doctored)
        assert not diff.identical
        assert any(change.what == "sum_flow" for change in diff.changes)
        # a generous relative tolerance swallows the drift
        assert api.compare(table5, doctored, rel_tol=0.5).identical

    def test_compare_reports_missing_records(self, table5):
        subset = table5.result_set.filter(heuristic="msf")
        diff = api.compare(table5, subset)
        assert not diff.identical
        assert len(diff.only_in_a) == 3 and not diff.only_in_b

    def test_compare_rejects_uninterpretable_values(self):
        with pytest.raises(ResultsError, match="cannot interpret"):
            api.compare(42, 43)

    def test_compare_surfaces_duplicate_coordinate_records(self, table5):
        """A doubled set must not diff 'identical' against the original."""
        doubled = table5.result_set.merge(table5.result_set)
        diff = api.compare(doubled, table5)
        assert not diff.identical
        assert any(change.what == "record count" for change in diff.changes)
        # ... while two equally-doubled sets still compare clean
        assert api.compare(doubled, doubled).identical


class TestObservers:
    def test_result_set_observer_streams_every_cell_in_order(self):
        class Recording(CampaignObserver):
            def __init__(self):
                self.started = []
                self.indices = []
                self.ended = []

            def on_campaign_start(self, experiment_id, total_cells):
                self.started.append((experiment_id, total_cells))

            def on_cell_complete(self, index, total, record, cached=False):
                self.indices.append(index)

            def on_campaign_end(self, result_set):
                self.ended.append(len(result_set))

        recording = Recording()
        incremental = ResultSetObserver()
        table = api.run(
            "table5", config=smoke_config(), observers=[recording, incremental]
        )
        assert recording.started == [("table5", 4)]
        assert recording.indices == [0, 1, 2, 3]
        assert recording.ended == [4]
        assert incremental.result_set.records == table.result_set.records

    def test_streaming_order_is_preserved_under_parallel_execution(self):
        incremental = ResultSetObserver()
        table = api.run("table5", config=smoke_config(jobs=2), observers=[incremental])
        assert incremental.result_set.records == table.result_set.records

    def test_progress_observer_writes_one_line_per_cell(self):
        stream = io.StringIO()
        api.run("table5", config=smoke_config(), observers=[ProgressObserver(stream)])
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 1 + 4 + 1  # start + cells + end
        assert "4 cells planned" in lines[0]
        assert lines[1].startswith("[table5] 1/4 mct")

    def test_observers_never_change_the_numbers(self, table5):
        observed = api.run(
            "table5", config=smoke_config(), observers=[ProgressObserver(io.StringIO())]
        )
        assert observed.columns == table5.columns


class TestRunSweep:
    def test_run_sweep_does_not_warn(self, recwarn):
        run_sweep(["paper-low-rate"], config=smoke_config())
        assert not [w for w in recwarn if issubclass(w.category, DeprecationWarning)]


class TestCliResults:
    def test_save_results_option_then_show(self, tmp_path, capsys):
        path = tmp_path / "t5.jsonl"
        assert (
            cli_main(
                ["table5", "--scale", "smoke", "--seed", "2003", "--save-results", str(path)]
            )
            == 0
        )
        shown = capsys.readouterr().out
        assert path.exists()
        assert cli_main(["results", "show", str(path)]) == 0
        reshown = capsys.readouterr().out
        # the table printed by the run and the one re-rendered from the saved
        # records are the same table
        assert reshown.strip() in shown

    def test_results_diff_identical_and_different(self, tmp_path, capsys):
        table = api.run("table5", config=smoke_config())
        path_a = api.save_results(table, tmp_path / "a.jsonl")
        path_b = api.save_results(table, tmp_path / "b.jsonl")
        assert cli_main(["results", "diff", path_a, path_b]) == 0
        assert "identical" in capsys.readouterr().out

        other = api.run("table5", config=smoke_config().with_seed(7))
        path_c = api.save_results(other, tmp_path / "c.jsonl")
        assert cli_main(["results", "diff", path_a, path_c]) == 1
        assert "difference" in capsys.readouterr().out

    def test_results_show_renders_multi_experiment_files_per_experiment(
        self, tmp_path, capsys
    ):
        table_a = api.run("table5", config=smoke_config())
        table_b = api.run("table6", config=smoke_config())
        merged = table_a.result_set.merge(table_b.result_set)
        path = merged.save(tmp_path / "both.jsonl")
        assert cli_main(["results", "show", str(path)]) == 0
        shown = capsys.readouterr().out
        assert "table5" in shown and "table6" in shown

    def test_save_results_extension_is_validated_before_the_run(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["table5", "--scale", "smoke", "--save-results", "out.parquet"])
        assert "--save-results needs" in capsys.readouterr().err

    def test_unwritable_save_path_fails_cleanly(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            cli_main(
                [
                    "table5",
                    "--scale",
                    "smoke",
                    "--save-results",
                    str(tmp_path / "missing-dir" / "out.jsonl"),
                ]
            )
        assert "could not save results" in capsys.readouterr().err

    def test_negative_rel_tol_is_a_clean_argument_error(self, tmp_path, capsys):
        table = api.run("table5", config=smoke_config())
        path = api.save_results(table, tmp_path / "a.jsonl")
        with pytest.raises(SystemExit):
            cli_main(["results", "diff", path, path, "--rel-tol", "-1"])
        assert "--rel-tol must be >= 0" in capsys.readouterr().err

    def test_results_show_rejects_bad_files(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"not": "results"}\n')
        with pytest.raises(SystemExit):
            cli_main(["results", "show", str(bad)])

    def test_progress_flag_streams_to_stderr_without_touching_stdout(self, capsys):
        assert cli_main(["table5", "--scale", "smoke", "--progress"]) == 0
        progress_out, progress_err = capsys.readouterr()
        assert "cells planned" in progress_err
        assert cli_main(["table5", "--scale", "smoke"]) == 0
        plain_out, plain_err = capsys.readouterr()
        assert progress_out == plain_out
        assert "cells planned" not in plain_err
